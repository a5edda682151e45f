//! Registry semantics: scenario registration, content-hash aliasing,
//! eviction, the wire protocol's encode/decode round trip, and the serve
//! loop's handling of hostile bytes.

use coolopt_scenario::presets;
use coolopt_service::{proto, CoalesceConfig, ServiceCore, TenantId};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

#[test]
fn scenario_zones_become_tenants_with_content_hash_aliases() {
    let core = ServiceCore::default();
    let scenario = presets::two_zone_hetero(0);
    let hash = scenario.content_hash();
    let tenants = core.register_scenario(&scenario).unwrap();
    assert_eq!(tenants.len(), scenario.zone_count());
    assert_eq!(core.tenants().len(), scenario.zone_count());

    for (tenant, zone) in tenants.iter().zip(&scenario.zones) {
        let key = format!("{}/{}", scenario.name, zone.name);
        let by_key = core.get(&key).expect("tenant reachable by key");
        let by_hash = core
            .get(&format!("{hash}/{}", zone.name))
            .expect("tenant reachable by content-hash alias");
        assert!(Arc::ptr_eq(&by_key, tenant));
        assert!(Arc::ptr_eq(&by_hash, tenant));
        assert_eq!(tenant.content_hash(), hash);
        assert!(tenant.snapshot().is_some(), "registration publishes");
    }
}

#[test]
fn reregistering_an_edited_scenario_swaps_engines_and_retires_stale_aliases() {
    let core = ServiceCore::default();
    let original = presets::testbed_rack20(0);
    let tenants = core.register_scenario(&original).unwrap();
    assert_eq!(tenants.len(), 1);
    let tenant = Arc::clone(&tenants[0]);
    let generation = tenant.generation();
    let old_hash = original.content_hash();

    // Same name, edited cooling model → same tenant key, new content AND
    // a new model fingerprint (ρ changes with the cooling coefficient).
    let mut edited = presets::testbed_rack20(0);
    edited.zones[0].cooling.cf_watts_per_kelvin *= 1.25;
    assert_ne!(edited.content_hash(), old_hash);
    let reregistered = core.register_scenario(&edited).unwrap();
    assert!(Arc::ptr_eq(&reregistered[0], &tenant), "identity is stable");
    assert_eq!(tenant.generation(), generation + 1, "engine swapped once");
    assert_eq!(tenant.content_hash(), edited.content_hash());

    // The new alias resolves; the stale one no longer does.
    let zone = &edited.zones[0].name;
    assert!(core
        .get(&format!("{}/{zone}", edited.content_hash()))
        .is_some());
    assert!(core.get(&format!("{old_hash}/{zone}")).is_none());

    // Idempotent re-registration: unchanged content is a fingerprint hit.
    core.register_scenario(&edited).unwrap();
    assert_eq!(tenant.generation(), generation + 1);
}

#[test]
fn eviction_retires_key_and_alias_but_in_flight_handles_survive() {
    let core = ServiceCore::default();
    let scenario = presets::testbed_rack20(0);
    let tenants = core.register_scenario(&scenario).unwrap();
    let tenant = Arc::clone(&tenants[0]);
    let key = tenant.key().to_string();
    let alias = format!("{}/{}", scenario.content_hash(), scenario.zones[0].name);

    let evicted = core.evict(&key).expect("tenant was registered");
    assert!(Arc::ptr_eq(&evicted, &tenant));
    assert!(core.get(&key).is_none());
    assert!(core.get(&alias).is_none());
    assert!(core.tenants().is_empty());

    // A handle obtained before eviction still answers.
    assert!(tenant.submit_one(5.0).unwrap().unwrap().is_some());
}

#[test]
fn eviction_by_alias_retires_the_primary_key_too() {
    let core = ServiceCore::default();
    let scenario = presets::testbed_rack20(0);
    let tenants = core.register_scenario(&scenario).unwrap();
    let key = tenants[0].key().to_string();
    let alias = format!("{}/{}", scenario.content_hash(), scenario.zones[0].name);
    assert!(core.evict(&alias).is_some());
    assert!(core.get(&key).is_none());
    assert!(core.get(&alias).is_none());
}

#[test]
fn tenant_ids_are_stable_fnv() {
    // Pinned: ids are part of the wire-observable surface (span attrs).
    assert_eq!(TenantId::of(""), TenantId::of(""));
    assert_ne!(TenantId::of("a"), TenantId::of("b"));
    assert_eq!(format!("{}", TenantId::of("")), "cbf29ce484222325");
}

/// Decodes a `handle_line` reply that must be a planning [`proto::Response`].
fn plan_reply(core: &ServiceCore, line: &str) -> proto::Response {
    match proto::handle_request(core, line) {
        proto::Reply::Plan(response) => response,
        other => panic!("expected a plan response, got {other:?}"),
    }
}

#[test]
fn proto_round_trips_and_reports_errors() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();

    let response = plan_reply(
        &core,
        r#"{"tenant":"testbed_rack20/rack","loads":[1.0,-2.0,25.0]}"#,
    );
    assert!(response.ok);
    assert_eq!(response.results.len(), 3);
    assert!(response.results[0].feasible && response.results[0].plan.is_some());
    assert!(!response.results[1].feasible);
    assert!(response.results[1].error.is_some(), "negative load errors");
    assert!(!response.results[2].feasible);
    assert!(
        response.results[2].error.is_none(),
        "overload is infeasible, not an error"
    );

    // Encode → decode is lossless, and `handle_line` is the encoded form.
    let encoded = serde_json::to_string(&response).unwrap();
    let decoded: proto::Response = serde_json::from_str(&encoded).unwrap();
    assert_eq!(decoded, response);
    let line = proto::handle_line(
        &core,
        r#"{"tenant":"testbed_rack20/rack","loads":[1.0,-2.0,25.0]}"#,
    );
    let decoded: proto::Response = serde_json::from_str(&line).unwrap();
    assert_eq!(decoded.results.len(), 3);

    let unknown = plan_reply(&core, r#"{"tenant":"ghost","load":1.0}"#);
    assert!(!unknown.ok && unknown.error.is_some());
    let malformed = plan_reply(&core, "not json");
    assert!(!malformed.ok && malformed.error.is_some());
    let empty = plan_reply(&core, r#"{"tenant":"testbed_rack20/rack"}"#);
    assert!(!empty.ok && empty.error.is_some());
    let bogus = plan_reply(&core, r#"{"cmd":"selfdestruct"}"#);
    assert!(!bogus.ok && bogus.error.unwrap().contains("unknown command"));

    // An explicit `"cmd":"plan"` is the same as no cmd at all.
    let explicit = plan_reply(
        &core,
        r#"{"cmd":"plan","tenant":"testbed_rack20/rack","load":1.0}"#,
    );
    assert!(explicit.ok && explicit.results.len() == 1);
}

#[test]
fn deeply_nested_lines_are_refused_without_overflowing_the_stack() {
    // A spawned thread has the default 2 MiB stack, the same budget a TCP
    // connection thread of `coolopt-serve` parses with.
    std::thread::spawn(|| {
        let core = ServiceCore::default();
        core.register_scenario(&presets::testbed_rack20(0)).unwrap();

        let line = proto::handle_line(&core, &"[".repeat(1_000_000));
        assert_eq!(line.lines().count(), 1, "one reply line");
        let refused: proto::Response = serde_json::from_str(&line).unwrap();
        assert!(!refused.ok);
        assert!(
            refused.error.unwrap().contains("recursion limit exceeded"),
            "{line}"
        );

        let next = plan_reply(&core, r#"{"tenant":"testbed_rack20/rack","load":1.0}"#);
        assert!(next.ok && next.results[0].feasible);
    })
    .join()
    .expect("the parsing thread survives");
}

/// Runs `input` through the serve loop and returns its reply lines.
fn serve(core: &ServiceCore, input: &[u8]) -> Vec<String> {
    let mut output = Vec::new();
    proto::serve_lines(core, input, &mut output).expect("in-memory input never fails");
    String::from_utf8(output)
        .expect("replies are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn serve_lines_answers_bad_bytes_and_over_long_lines_then_plans() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();

    let mut input = b"\xff\n".to_vec();
    input.extend(std::iter::repeat_n(b'1', 2 << 20));
    input.extend_from_slice(b"\n{\"tenant\":\"testbed_rack20/rack\",\"load\":2.0}\r\n\n");
    let replies = serve(&core, &input);
    assert_eq!(replies.len(), 3, "{replies:?}");

    let decode = |line: &str| serde_json::from_str::<proto::Response>(line).unwrap();
    let not_utf8 = decode(&replies[0]);
    assert!(!not_utf8.ok);
    assert!(not_utf8.error.unwrap().contains("malformed request"));
    let too_long = decode(&replies[1]);
    assert!(!too_long.ok);
    assert!(too_long.error.unwrap().contains("longer than"));
    let planned = decode(&replies[2]);
    assert!(planned.ok && planned.results[0].feasible, "{planned:?}");

    // A line of exactly the limit is still read (and refused by the
    // parser, not by the reader); an unterminated last line is served.
    let mut at_limit = vec![b' '; proto::MAX_LINE_BYTES - 1];
    at_limit.push(b'x');
    at_limit.extend_from_slice(b"\n{\"cmd\":\"stats\"}");
    let replies = serve(&core, &at_limit);
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(!decode(&replies[0]).error.unwrap().contains("longer than"));
    assert!(replies[1].contains("coolopt-service-stats-v1"));
}

#[test]
fn a_number_outside_the_json_grammar_is_a_malformed_request() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    let replies = serve(
        &core,
        b"{\"tenant\":\"testbed_rack20/rack\",\"loads\":[01]}\n",
    );
    assert_eq!(replies.len(), 1, "{replies:?}");
    let reply = serde_json::from_str::<proto::Response>(&replies[0]).unwrap();
    assert!(!reply.ok);
    assert!(
        reply
            .error
            .as_deref()
            .unwrap()
            .contains("malformed request"),
        "{reply:?}"
    );
}

#[test]
fn an_escaped_surrogate_pair_reaches_the_tenant_lookup() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    // `\ud83d\ude00` is U+1F600 in JSON's UTF-16 escapes; a lone half is not
    // a character.
    let replies = serve(
        &core,
        b"{\"tenant\":\"x\\ud83d\\ude00\",\"loads\":[1]}\n\
          {\"tenant\":\"x\\ud83d\",\"loads\":[1]}\n",
    );
    assert_eq!(replies.len(), 2, "{replies:?}");
    let error = |line: &str| {
        let reply = serde_json::from_str::<proto::Response>(line).unwrap();
        assert!(!reply.ok, "{reply:?}");
        reply.error.unwrap()
    };
    assert_eq!(error(&replies[0]), "unknown tenant \"x\u{1F600}\"");
    assert!(error(&replies[1]).contains("malformed request"));
}

#[test]
fn a_request_larger_than_one_batch_is_refused_and_the_next_is_served() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();

    let limit = CoalesceConfig::default().max_batch;
    let loads = vec!["1.0"; limit + 1].join(",");
    let input = format!(
        "{{\"tenant\":\"testbed_rack20/rack\",\"loads\":[{loads}]}}\n\
         {{\"tenant\":\"testbed_rack20/rack\",\"load\":1.0}}\n"
    );
    let replies = serve(&core, input.as_bytes());
    assert_eq!(replies.len(), 2, "{replies:?}");

    let decode = |line: &str| serde_json::from_str::<proto::Response>(line).unwrap();
    let refused = decode(&replies[0]);
    assert!(!refused.ok && refused.results.is_empty());
    let error = refused.error.unwrap();
    assert!(error.contains(&format!("limit {limit}")), "{error}");
    let planned = decode(&replies[1]);
    assert!(planned.ok && planned.results[0].feasible, "{planned:?}");
    assert_eq!(core.stats().snapshot().shed, 0);
    let tenant = core.get("testbed_rack20/rack").expect("registered");
    assert_eq!(tenant.slo_verdict().attempts, 1, "only the served plan");
}

/// One core for every property case: registering a tenant per case would
/// dominate the run time.
fn shared_core() -> &'static ServiceCore {
    static CORE: OnceLock<ServiceCore> = OnceLock::new();
    CORE.get_or_init(|| {
        let core = ServiceCore::default();
        core.register_scenario(&presets::testbed_rack20(0)).unwrap();
        core
    })
}

/// Asserts the serve loop answered every non-blank line of `input` with
/// exactly one JSON object line.
fn assert_one_object_per_line(input: &[u8]) {
    let replies = serve(shared_core(), input);
    let requests = input
        .split(|&b| b == b'\n')
        .filter(|line| std::str::from_utf8(line).map_or(true, |s| !s.trim().is_empty()))
        .count();
    assert_eq!(replies.len(), requests, "input {input:?} got {replies:?}");
    for reply in &replies {
        let value: serde::Value = serde_json::from_str(reply)
            .unwrap_or_else(|e| panic!("reply {reply:?} is not JSON: {e}"));
        assert!(matches!(value, serde::Value::Object(_)), "{reply}");
    }
}

/// Pieces of requests, well-formed and not, that lines are assembled from.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\r",
    "\"",
    "\\",
    "\"tenant\"",
    "\"loads\"",
    "\"load\"",
    "\"cmd\"",
    "\"query\"",
    "\"stats\"",
    "\"trace\"",
    "\"plan\"",
    "\"limit\"",
    "\"series\"",
    "\"agg\"",
    "\"step_ms\"",
    "\"start_ms\"",
    "\"testbed_rack20/rack\"",
    "\"ghost\"",
    "1e999",
    "-0",
    "null",
    "true",
    "2.5",
    "-1",
    "0",
    "18446744073709551616",
    "-9223372036854775808",
    "\"\\u0000\"",
    "\"\\ud800\"",
    "\u{ff}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes, newlines included: one JSON object per non-blank
    /// line, never an error or a panic.
    #[test]
    fn arbitrary_bytes_get_one_json_object_per_line(
        input in prop::collection::vec((0u16..256, 0u8..6), 0..200).prop_map(|raw| {
            raw.into_iter()
                .map(|(byte, pick)| if pick == 0 { b'\n' } else { byte as u8 })
                .collect::<Vec<u8>>()
        }),
    ) {
        assert_one_object_per_line(&input);
    }

    /// Lines assembled from JSON fragments: near-misses of real requests.
    #[test]
    fn json_fragment_lines_get_one_json_object_per_line(
        lines in prop::collection::vec(
            prop::collection::vec(0usize..FRAGMENTS.len(), 0..16),
            1..6,
        ),
    ) {
        let input = lines
            .iter()
            .map(|line| line.iter().map(|&i| FRAGMENTS[i]).collect::<String>())
            .collect::<Vec<_>>()
            .join("\n");
        assert_one_object_per_line(input.as_bytes());
    }
}
