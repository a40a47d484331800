//! Mining the builtin APIs (the Fig. 7 fixture and the simulated Slack,
//! Stripe and Square services) and an adversarial case: golden digests of
//! the mined types, and incremental-vs-batch equality of the miner.

use std::fmt::Write as _;

use apiphany_json::{json, Value};
use apiphany_services::{Slack, Square, Stripe};
use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_spec::{
    CancelToken, FieldTy, Label, Library, LibraryBuilder, Loc, RecordTy, Service, SynTy, Witness,
};

use crate::mine::Miner;
use crate::{
    analyze_api, canonical_scalar_loc, fold, mine_types, AnalyzeConfig, Folded, Granularity,
    MiningConfig, SemLib,
};

/// The analysis budget of `apiphany_benchmarks::default_analyze_config`,
/// so these witness sets are exactly the ones `prepare_api` collects.
fn prepare_config() -> AnalyzeConfig {
    AnalyzeConfig { max_rounds: 3, attempts_per_subset: 2, ..AnalyzeConfig::default() }
}

/// `prepare_api` for one builtin service: scenario capture, then the
/// analysis loop with the default mining configuration.
fn prepare(api: &str) -> (SemLib, Vec<Witness>) {
    fn run(svc: &mut dyn Service, w0: &[Witness]) -> (SemLib, Vec<Witness>) {
        let r =
            analyze_api(svc, w0, &MiningConfig::default(), &prepare_config(), &CancelToken::new());
        (r.semlib, r.witnesses)
    }
    match api {
        "slack" => {
            let mut svc = Slack::new();
            let w0 = svc.scenario();
            run(&mut svc, &w0)
        }
        "stripe" => {
            let mut svc = Stripe::new();
            let w0 = svc.scenario();
            run(&mut svc, &w0)
        }
        "square" => {
            let mut svc = Square::new();
            let w0 = svc.scenario();
            run(&mut svc, &w0)
        }
        other => panic!("unknown api {other}"),
    }
}

/// A library and witnesses that disagree in every way a miner must
/// tolerate: undeclared fields and methods, values of the wrong shape, an
/// object type the library never defines, duplicate field names, and
/// floats, large integers and nulls.
fn odd_case() -> (Library, Vec<Witness>) {
    let twice = |a: SynTy, b: SynTy| {
        let field = |ty| FieldTy { name: "score".into(), optional: false, ty };
        SynTy::Record(RecordTy { fields: vec![field(a), field(b)] })
    };
    let lib = LibraryBuilder::new("odd")
        .object("User", |o| {
            o.field("id", SynTy::Str)
                .field("tags", SynTy::array(SynTy::Str))
                .field("home", SynTy::object("Ghost"))
                .field("meta", twice(SynTy::Float, SynTy::Int))
        })
        .method("get", |m| {
            m.param("id", SynTy::Str)
                .param("id", SynTy::Int)
                .opt_param("n", SynTy::Int)
                .returns(SynTy::object("User"))
        })
        .method("list", |m| m.returns(SynTy::array(SynTy::object("User"))))
        .method("ghost", |m| m.returns(SynTy::object("Ghost")))
        .build();
    let none = Vec::<(String, Value)>::new;
    let witnesses = vec![
        Witness::new(
            "get",
            [("id", json!("U1")), ("n", json!(5))],
            json!({
                "id": "U1", "tags": ["a", "U2"], "home": {"x": "U1"},
                "meta": {"score": 1.5, "extra": null}, "bogus": {"deep": ["U1"]}
            }),
        ),
        Witness::new(
            "get",
            [("id", json!(1_234_567))],
            json!({"id": 1_234_567, "tags": "not-an-array", "home": "h1", "meta": [1]}),
        ),
        Witness::new(
            "list",
            none(),
            json!([
                {"id": "U2", "home": {"x": 2.0}}, "U3", ["nested"], null,
                {"id": "U1", "home": {"x": "U1"}}
            ]),
        ),
        Witness::new("ghost", none(), json!({"x": 1e300, "y": "U3"})),
        Witness::new("ghost", none(), json!({"y": "U3", "x": 1e300})),
        Witness::new("nope", [("q", json!("U2"))], json!({"id": "U2", "more": [{"id": "U9"}]})),
        Witness::new("list", none(), json!(["U3", 2.0, 2, true, {"id": 2e18}])),
    ];
    (lib, witnesses)
}

/// Checks the mined library against [`fold`]: every scalar of every
/// witness is in the bank of the group of its canonical location, and
/// every object value in the bank of the object its location folds to
/// (unless that bank is full).
fn assert_banks_follow_fold(sl: &SemLib, witnesses: &[Witness], cap: usize) {
    let banked = |bank: &[Value], v: &Value| {
        bank.len() >= cap || bank.iter().any(|b| b.to_json() == v.to_json())
    };
    let visit = |loc: Loc, v: &Value| {
        let mut stack = vec![(loc, v)];
        while let Some((loc, v)) = stack.pop() {
            match v {
                Value::Null => {}
                Value::Array(items) => stack.extend(items.iter().map(|item| (loc.elem(), item))),
                Value::Object(fields) => {
                    if let Some(Folded::Object(o)) = fold(&sl.lib, &loc) {
                        assert!(
                            banked(sl.object_values(&o), v),
                            "{loc}: {} not in {o}'s bank",
                            v.to_json()
                        );
                    }
                    stack.extend(fields.iter().map(|(k, item)| (loc.field(k.clone()), item)));
                }
                scalar => {
                    let canon = canonical_scalar_loc(&sl.lib, &loc);
                    let g = sl
                        .group_of_canonical(&canon)
                        .unwrap_or_else(|| panic!("{canon}: no group"));
                    assert!(
                        banked(&sl.group(g).values, scalar),
                        "{loc}: {} not banked",
                        scalar.to_json()
                    );
                }
            }
        }
    };
    for w in witnesses {
        let m = Loc::method(w.method.clone());
        visit(m.child(Label::In), &w.args_value());
        visit(m.child(Label::Out), &w.output);
    }
}

fn granularity_config(granularity: Granularity) -> MiningConfig {
    MiningConfig { granularity, ..MiningConfig::default() }
}

/// A canonical rendering of everything a mined library exposes: every
/// group's loc-set, value bank and display; the group of every location
/// (canonical and raw lookups); the semantic object and method
/// signatures; and every object's value bank.
fn render(sl: &SemLib) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "groups {}", sl.n_groups());
    for (id, g) in sl.groups_iter() {
        let locs: Vec<String> = g.locs.iter().map(ToString::to_string).collect();
        let values: Vec<String> = g.values.iter().map(Value::to_json).collect();
        let _ = writeln!(out, "{id:?} [{}] [{}] {}", locs.join(" "), values.join(" "), g.display);
        for loc in &g.locs {
            let _ =
                writeln!(out, "  {loc} {:?} {:?}", sl.group_of_canonical(loc), sl.group_of(loc));
        }
    }
    for (name, rec) in &sl.objects {
        let _ = writeln!(out, "object {name} {rec:?}");
    }
    for (name, sig) in &sl.methods {
        let _ = writeln!(out, "method {name} {sig:?}");
    }
    for name in sl.lib.objects.keys() {
        let values: Vec<String> = sl.object_values(name).iter().map(Value::to_json).collect();
        let _ = writeln!(out, "bank {name} [{}]", values.join(" "));
    }
    out
}

/// FNV-1a, 64-bit.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn digest(sl: &SemLib) -> String {
    format!("{:016x}", fnv(&render(sl)))
}

/// Digests of the types mined for every case, as the original batch miner
/// (which folded every location from its root) mined them: the analysis
/// result (what `prepare_api` serves; for the fixed cases, `mine_types`),
/// then `mine_types` of its witnesses under the location-only and
/// syntactic granularities. A change to any mined group, value bank,
/// display, signature or object bank changes a digest.
const GOLDEN: [(&str, [&str; 3]); 5] = [
    ("odd", ["f2a3bc16b48a38ff", "e1143487ae24f98e", "2df2b6521bf5ae30"]),
    ("fig7", ["42d0d7dcb992009a", "45039fa0d0152869", "58a86935ef779318"]),
    ("slack", ["7475e884f79a21e9", "3dd6d2f4f38ce56e", "9b40adf62ba872f1"]),
    ("stripe", ["3027cf924c3a6e45", "ee743d0a8ca14117", "700643ff59dcc235"]),
    ("square", ["b4185105f7e059f5", "228b0d3162323481", "ae99bc105ce25c3a"]),
];

#[test]
fn mined_types_match_golden_digests() {
    let mut got = Vec::new();
    for (api, _) in GOLDEN {
        let (analyzed, witnesses, lib) = if api == "fig7" || api == "odd" {
            let (lib, w) =
                if api == "odd" { odd_case() } else { (fig7_library(), fig4_witnesses()) };
            (mine_types(&lib, &w, &MiningConfig::default()), w, lib)
        } else {
            let (sl, w) = prepare(api);
            let lib = sl.lib.clone();
            (sl, w, lib)
        };
        let loc = mine_types(&lib, &witnesses, &granularity_config(Granularity::LocationOnly));
        let syn = mine_types(&lib, &witnesses, &granularity_config(Granularity::Syntactic));
        assert_banks_follow_fold(&analyzed, &witnesses, MiningConfig::default().max_bank_values);
        got.push((api, [digest(&analyzed), digest(&loc), digest(&syn)]));
    }
    for (api, have) in &got {
        println!("(\"{api}\", [\"{}\", \"{}\", \"{}\"]),", have[0], have[1], have[2]);
    }
    for ((api, want), (_, have)) in GOLDEN.iter().zip(&got) {
        assert_eq!(want.map(str::to_string), *have, "{api}: mined types moved");
    }
}

/// Feeding a miner the witnesses one at a time and snapshotting it gives,
/// at every prefix checked, exactly what a batch mine of that prefix gives.
#[test]
fn incremental_mining_equals_batch_mining() {
    let capped = MiningConfig { max_bank_values: 3, ..MiningConfig::default() };
    let configs = [
        granularity_config(Granularity::Mined),
        granularity_config(Granularity::LocationOnly),
        granularity_config(Granularity::Syntactic),
        capped,
    ];
    for api in ["odd", "slack", "stripe", "square"] {
        let (lib, witnesses) = match api {
            "odd" => odd_case(),
            _ => {
                let (analyzed, witnesses) = prepare(api);
                (analyzed.lib, witnesses)
            }
        };
        let lib = &lib;
        let n = witnesses.len();
        let prefixes = [0, 1, n / 3, 2 * n / 3, n];
        for cfg in &configs {
            let mut miner = Miner::new(lib, cfg);
            let mut fed = 0;
            for &prefix in &prefixes {
                for w in &witnesses[fed..prefix] {
                    assert!(miner.add_witnesses(std::slice::from_ref(w), &CancelToken::new()));
                }
                fed = prefix;
                let batch = mine_types(lib, &witnesses[..prefix], cfg);
                assert_eq!(
                    render(&miner.snapshot()),
                    render(&batch),
                    "{api}, {:?} (cap {}): prefix {prefix} of {n}",
                    cfg.granularity,
                    cfg.max_bank_values,
                );
            }
        }
    }
}
