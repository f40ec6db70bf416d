//! `JsonWriter` round trips: seeded random `Json` trees, written pretty
//! and compact, must parse back to the same tree.
//!
//! The writer is lossy in exactly three documented ways, which
//! [`normalize`] applies to the expected value: non-finite floats become
//! `null`, `-0` becomes `0`, and a number with no fraction reads back as
//! an integer (`3.0` → `3`, and a non-negative `Int` → `UInt`). Trees
//! include empty containers at every depth, duplicate keys, strings
//! with every escape class and multi-byte characters, and extreme
//! numbers.

use ninja_json_tree::{parse, Json};
use ninja_sim::{JsonWriter, SimRng, WriteJson};

/// The tree `parse` returns for what the writer makes of `v`.
fn normalize(v: &Json) -> Json {
    match v {
        Json::Num(n) if !n.is_finite() => Json::Null,
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 18_446_744_073_709_551_616.0 => {
            Json::UInt(*n as u64)
        }
        Json::Num(n) if n.fract() == 0.0 && *n < 0.0 && *n >= -9_223_372_036_854_775_808.0 => {
            Json::Int(*n as i64)
        }
        Json::Int(i) if *i >= 0 => Json::UInt(*i as u64),
        Json::Arr(items) => Json::Arr(items.iter().map(normalize).collect()),
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), normalize(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn random_string(rng: &mut SimRng) -> String {
    const PIECES: [&str; 14] = [
        "a", "job", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{1}", "é", "🦀",
    ];
    let len = rng.below(6) as usize;
    (0..len)
        .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
        .collect()
}

fn random_number(rng: &mut SimRng) -> Json {
    const SPECIAL: [f64; 12] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-7,
        0.1 + 0.2,
        1e300,
        -1e-300,
        18_446_744_073_709_551_616.0,
        3.0,
        -3.0,
    ];
    match rng.below(5) {
        0 => Json::Num(SPECIAL[rng.below(SPECIAL.len() as u64) as usize]),
        1 => Json::Num(rng.normal(0.0, 1e6)),
        2 => Json::UInt(rng.next_u64()),
        3 => Json::Int(rng.next_u64() as i64),
        _ => Json::Num(f64::from_bits(rng.next_u64())),
    }
}

fn random_json(rng: &mut SimRng, depth: u32) -> Json {
    let leaf = depth == 0 || rng.chance(0.4);
    match rng.below(if leaf { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 | 3 => random_number(rng),
        4 => Json::Str(random_string(rng)),
        5 => Json::Arr(
            (0..rng.below(4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn random_trees_round_trip_through_the_writer() {
    let mut rng = SimRng::new(0x15_0a);
    for round in 0..3000 {
        let tree = random_json(&mut rng, 5);
        let want = normalize(&tree);
        let pretty = tree.to_json_pretty();
        let compact = tree.to_json_compact();
        assert_eq!(compact, tree.to_string(), "Display is the compact form");
        assert_eq!(pretty, tree.to_string_pretty());
        let from_pretty = parse(&pretty).unwrap_or_else(|e| panic!("round {round}: {e}\n{pretty}"));
        assert_eq!(from_pretty, want, "round {round}: pretty\n{pretty}");
        let from_compact = parse(&compact).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(from_compact, want, "round {round}: compact\n{compact}");
        // Writing the normalized tree again changes no byte.
        assert_eq!(want.to_json_pretty(), pretty, "round {round}");
    }
}

#[test]
fn lossy_cases_and_empty_containers_render_as_documented() {
    let doc = Json::obj(vec![
        ("neg_zero", Json::Num(-0.0)),
        ("nan", Json::Num(f64::NAN)),
        ("inf", Json::Num(f64::NEG_INFINITY)),
        ("empty_arr", Json::Arr(vec![])),
        ("empty_obj", Json::Obj(vec![])),
        (
            "nested",
            Json::Arr(vec![Json::Arr(vec![]), Json::Obj(vec![])]),
        ),
    ]);
    assert_eq!(
        doc.to_string(),
        r#"{"neg_zero":0,"nan":null,"inf":null,"empty_arr":[],"empty_obj":{},"nested":[[],{}]}"#
    );
    assert_eq!(
        doc.to_string_pretty(),
        "{\n  \"neg_zero\": 0,\n  \"nan\": null,\n  \"inf\": null,\n  \"empty_arr\": [],\n  \
         \"empty_obj\": {},\n  \"nested\": [\n    [],\n    {}\n  ]\n}"
    );
    assert_eq!(Json::Arr(vec![]).to_string_pretty(), "[]");
}

#[test]
fn writer_calls_match_the_equivalent_tree() {
    let tree = Json::obj(vec![
        ("name", Json::from("detach \"fast\"")),
        ("vms", Json::from(3u64)),
        ("deadline", Json::Null),
        ("waits", Json::Arr(vec![Json::from(1.5), Json::from(-2i64)])),
    ]);
    for pretty in [false, true] {
        let mut out = String::new();
        let mut w = if pretty {
            JsonWriter::pretty(&mut out)
        } else {
            JsonWriter::compact(&mut out)
        };
        w.begin_object().unwrap();
        w.field("name", "detach \"fast\"").unwrap();
        w.field("vms", &3usize).unwrap();
        w.field("deadline", &None::<f64>).unwrap();
        w.key("waits").unwrap();
        w.begin_array().unwrap();
        w.f64(1.5).unwrap();
        w.i64(-2).unwrap();
        w.end_array().unwrap();
        w.end_object().unwrap();
        let want = if pretty {
            tree.to_string_pretty()
        } else {
            tree.to_string()
        };
        assert_eq!(out, want);
    }
}

#[test]
fn index_is_total() {
    let v = parse(r#"{"a":[10,20]}"#).unwrap();
    assert_eq!(v["a"][1].as_u64(), Some(20));
    assert!(v["missing"].is_null());
    assert!(v["a"][9].is_null());
    assert!(v["a"]["not-an-object"].is_null());
}
